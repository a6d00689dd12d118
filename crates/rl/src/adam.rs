//! The Adam first-order optimizer.

/// Adam optimizer state for a flat parameter vector.
///
/// The update is elementwise, so the optimizer needs no layout: its moment
/// vectors follow the order of the parameter vector it steps. Inside the
/// crate that is an [`crate::Mlp`]'s storage layout, stepped in place;
/// a [`crate::PolicySnapshot`] holds the moments in public order.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `num_params` parameters with the given
    /// learning rate and the usual defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    #[must_use]
    pub fn new(num_params: usize, learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// Current learning rate.
    #[must_use]
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Changes the learning rate (e.g. for schedules).
    pub fn set_learning_rate(&mut self, learning_rate: f64) {
        self.learning_rate = learning_rate;
    }

    /// Applies one Adam update in place: `params -= lr * m̂ / (√v̂ + ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` do not match the length given at
    /// construction.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    /// Number of update steps performed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first- and second-moment vectors (`m`, `v`), in the order of the
    /// parameters the optimizer steps, for persisting its state alongside
    /// them.
    #[must_use]
    pub fn moments(&self) -> (&[f64], &[f64]) {
        (&self.m, &self.v)
    }

    /// Rebuilds an optimizer from a persisted state — the inverse of
    /// [`Adam::learning_rate`] / [`Adam::moments`] / [`Adam::steps`]. The
    /// β/ε constants are the construction-time defaults of [`Adam::new`].
    ///
    /// # Panics
    ///
    /// Panics if `m` and `v` differ in length.
    #[must_use]
    pub fn from_raw_state(learning_rate: f64, m: Vec<f64>, v: Vec<f64>, t: u64) -> Self {
        assert_eq!(m.len(), v.len(), "moment vectors must match in length");
        Self {
            m,
            v,
            t,
            // The β/ε defaults; the empty vectors allocate nothing.
            ..Self::new(0, learning_rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)^2, gradient 2(x - 3).
        let mut x = vec![0.0f64];
        let mut adam = Adam::new(1, 0.1);
        for _ in 0..500 {
            let grad = vec![2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &grad);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn minimizes_rosenbrock_ish_2d() {
        // f(x, y) = (1-x)^2 + 10 (y - x^2)^2 — a gentler Rosenbrock.
        let mut p = vec![-1.0f64, 1.0];
        let mut adam = Adam::new(2, 0.02);
        for _ in 0..8000 {
            let (x, y) = (p[0], p[1]);
            let gx = -2.0 * (1.0 - x) - 40.0 * x * (y - x * x);
            let gy = 20.0 * (y - x * x);
            adam.step(&mut p, &[gx, gy]);
        }
        assert!(
            (p[0] - 1.0).abs() < 0.05 && (p[1] - 1.0).abs() < 0.1,
            "{p:?}"
        );
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut adam = Adam::new(1, 0.1);
        adam.set_learning_rate(0.5);
        assert!((adam.learning_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn wrong_length_panics() {
        let mut adam = Adam::new(2, 0.1);
        let mut p = vec![0.0];
        adam.step(&mut p, &[0.0]);
    }
}
