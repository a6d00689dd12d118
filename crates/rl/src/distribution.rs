//! Masked categorical action distribution.

use rand::Rng;

/// A categorical distribution over discrete actions built from raw logits,
/// with an optional validity mask.
///
/// Masked (invalid) actions receive probability zero, matching DETERRENT's
/// action-masking architecture where nets that are incompatible with the
/// current state are removed from the agent's choices (Theorem 3.1 of the
/// paper shows this loses nothing).
#[derive(Debug, Clone)]
pub struct MaskedCategorical {
    probs: Vec<f64>,
    log_probs: Vec<f64>,
}

impl MaskedCategorical {
    /// Builds the distribution from `logits`, keeping only actions whose mask
    /// entry is `true`. Pass `None` to allow every action.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a different length than `logits` or if no action
    /// is allowed.
    #[must_use]
    pub fn new(logits: &[f64], mask: Option<&[bool]>) -> Self {
        if let Some(m) = mask {
            assert_eq!(m.len(), logits.len(), "mask length mismatch");
            assert!(
                m.iter().any(|&allowed| allowed),
                "at least one action must be allowed"
            );
        }
        let allowed = |i: usize| mask.is_none_or(|m| m[i]);
        // Numerically stable masked softmax.
        let max_logit = logits
            .iter()
            .enumerate()
            .filter(|&(i, _)| allowed(i))
            .map(|(_, &l)| l)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut probs = vec![0.0; logits.len()];
        let mut total = 0.0;
        for (i, &l) in logits.iter().enumerate() {
            if allowed(i) {
                let e = (l - max_logit).exp();
                probs[i] = e;
                total += e;
            }
        }
        for p in &mut probs {
            *p /= total;
        }
        let log_probs = probs
            .iter()
            .map(|&p| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY })
            .collect();
        Self { probs, log_probs }
    }

    /// Number of actions (masked ones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Returns `true` if the distribution has no actions (never the case for
    /// a successfully constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of `action`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    #[must_use]
    pub fn prob(&self, action: usize) -> f64 {
        self.probs[action]
    }

    /// Natural log-probability of `action` (`-inf` for masked actions).
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    #[must_use]
    pub fn log_prob(&self, action: usize) -> f64 {
        self.log_probs[action]
    }

    /// All probabilities.
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
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
        for (i, &p) in self.probs.iter().enumerate() {
            if p > 0.0 {
                last_allowed = i;
                acc += p;
                if u < acc {
                    return i;
                }
            }
        }
        last_allowed
    }

    /// The most probable action.
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Gradient of `log π(action)` with respect to the (unmasked) logits:
    /// `onehot(action) - probs`, with zeros at masked positions.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range or masked.
    #[must_use]
    pub fn grad_log_prob(&self, action: usize) -> Vec<f64> {
        assert!(
            self.probs[action] > 0.0,
            "cannot take gradient of a masked action"
        );
        (0..self.len())
            .map(|k| self.grad_log_prob_at(action, k))
            .collect()
    }

    /// Gradient of the entropy with respect to the logits:
    /// `dH/dz_k = -p_k (ln p_k + H)`, zeros at masked positions.
    #[must_use]
    pub fn grad_entropy(&self) -> Vec<f64> {
        let h = self.entropy();
        (0..self.len())
            .map(|k| self.grad_entropy_at(k, h))
            .collect()
    }

    /// Component `k` of [`MaskedCategorical::grad_log_prob`].
    pub(crate) fn grad_log_prob_at(&self, action: usize, k: usize) -> f64 {
        let p = self.probs[k];
        if k == action {
            1.0 - p
        } else {
            -p
        }
    }

    /// Component `k` of [`MaskedCategorical::grad_entropy`], given the
    /// entropy `h`.
    pub(crate) fn grad_entropy_at(&self, k: usize, h: f64) -> f64 {
        let p = self.probs[k];
        if p > 0.0 {
            -p * (self.log_probs[k] + h)
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
        assert_eq!(d.len(), 4);
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
