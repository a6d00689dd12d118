//! Proximal Policy Optimization with clipped surrogate objective.

use exec::Exec;
use rand::Rng;

use crate::{Activations, Adam, MaskedCategorical, Mlp};

/// Hyper-parameters of the PPO trainer.
///
/// The defaults follow the "default parameters" the paper refers to; the two
/// knobs it explicitly tunes for exploration boosting (Section 3.4) are
/// [`entropy_coef`](Self::entropy_coef) (`c_ε`, set to 1.0 for boosted
/// exploration) and [`gae_lambda`](Self::gae_lambda) (`λ`, set to 0.99).
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE smoothing parameter λ.
    pub gae_lambda: f64,
    /// Clipping radius ε of the surrogate objective.
    pub clip_epsilon: f64,
    /// Entropy-loss coefficient `c_ε`.
    pub entropy_coef: f64,
    /// Value-loss coefficient `c_v`.
    pub value_coef: f64,
    /// Adam learning rate for both networks.
    pub learning_rate: f64,
    /// Gradient epochs per update.
    pub epochs: usize,
    /// Hidden layer sizes of the policy and value networks.
    pub hidden_sizes: Vec<usize>,
    /// Number of stored transitions that triggers an update.
    pub batch_size: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            learning_rate: 3e-3,
            epochs: 4,
            hidden_sizes: vec![64, 64],
            batch_size: 256,
        }
    }
}

impl PpoConfig {
    /// The paper's "boosted exploration" variant: entropy coefficient 1.0 and
    /// GAE λ = 0.99 (Section 3.4).
    #[must_use]
    pub fn boosted_exploration() -> Self {
        Self {
            entropy_coef: 1.0,
            gae_lambda: 0.99,
            ..Self::default()
        }
    }
}

/// One environment transition stored for learning.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation before the action.
    pub state: Vec<f64>,
    /// Action mask active at the time (empty = all actions allowed).
    pub mask: Vec<bool>,
    /// Chosen action.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// Whether the episode terminated after this step.
    pub done: bool,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f64,
    /// Value estimate of the state under the behaviour policy.
    pub value: f64,
}

/// Storage for collected transitions plus GAE(λ) post-processing.
#[derive(Debug, Clone, Default)]
pub(crate) struct RolloutBuffer {
    transitions: Vec<Transition>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a transition.
    pub(crate) fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// Number of stored transitions.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if no transitions are stored.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Removes all transitions.
    pub(crate) fn clear(&mut self) {
        self.transitions.clear();
    }

    /// The stored transitions.
    #[must_use]
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Computes GAE(λ) advantages and discounted returns.
    ///
    /// Episodes are delimited by the `done` flag; the value after a terminal
    /// step is treated as zero, and the buffer is assumed to end on an episode
    /// boundary (the trainer only updates at episode ends).
    #[must_use]
    pub(crate) fn advantages_and_returns(&self, gamma: f64, lambda: f64) -> (Vec<f64>, Vec<f64>) {
        let n = self.transitions.len();
        let mut advantages = vec![0.0; n];
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let next_value = if t.done || i + 1 == n {
                0.0
            } else {
                self.transitions[i + 1].value
            };
            if t.done {
                gae = 0.0;
            }
            let delta = t.reward + gamma * next_value - t.value;
            gae = delta + gamma * lambda * if t.done { 0.0 } else { gae };
            advantages[i] = gae;
        }
        let returns: Vec<f64> = advantages
            .iter()
            .zip(self.transitions.iter())
            .map(|(a, t)| a + t.value)
            .collect();
        (advantages, returns)
    }
}

/// Loss components of one PPO update, mirroring the decomposition in the
/// paper: `l = l_π + c_ε · l_ε + c_v · l_v`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PpoLosses {
    /// Clipped-surrogate policy loss `l_π`.
    pub policy_loss: f64,
    /// Entropy loss `l_ε` (negative mean entropy).
    pub entropy_loss: f64,
    /// Value loss `l_v` (mean squared error).
    pub value_loss: f64,
    /// Total weighted loss.
    pub total_loss: f64,
}

/// Persisted state of one [`Adam`] optimizer inside a [`PolicySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSnapshot {
    /// Learning rate at snapshot time.
    pub learning_rate: f64,
    /// First-moment vector `m`.
    pub m: Vec<f64>,
    /// Second-moment vector `v`.
    pub v: Vec<f64>,
    /// Update steps performed.
    pub steps: u64,
}

impl AdamSnapshot {
    fn of(adam: &Adam) -> Self {
        let (m, v) = adam.moments();
        Self {
            learning_rate: adam.learning_rate(),
            m: m.to_vec(),
            v: v.to_vec(),
            steps: adam.steps(),
        }
    }

    fn restore(self) -> Adam {
        Adam::from_raw_state(self.learning_rate, self.m, self.v, self.steps)
    }
}

/// A frozen, plain-data snapshot of a [`PpoTrainer`]: everything needed to
/// reconstruct the trained agent for greedy/frozen-policy use and for
/// continued optimization — network weights, optimizer moments, step/update
/// counters, and the loss history.
///
/// Deliberately **not** captured: the in-flight rollout buffer (training
/// rounds always learn from freshly collected episodes). The trainer holds
/// no RNG — [`PpoTrainer::policy_step`] samples with the caller's — so
/// frozen-policy evaluation ([`PpoTrainer::best_action`],
/// [`PpoTrainer::policy_step`]) is bit-identical between the original and a
/// restored trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// Hyper-parameters the trainer was built with.
    pub config: PpoConfig,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Environment steps observed.
    pub total_steps: u64,
    /// Gradient updates performed.
    pub total_updates: u64,
    /// `(steps, losses)` history of every update.
    pub loss_history: Vec<(u64, PpoLosses)>,
    /// Layer sizes of the policy network (input first).
    pub policy_layer_sizes: Vec<usize>,
    /// Flat policy parameters ([`crate::Mlp::parameters`] order).
    pub policy_params: Vec<f64>,
    /// Layer sizes of the value network (input first).
    pub value_layer_sizes: Vec<usize>,
    /// Flat value parameters ([`crate::Mlp::parameters`] order).
    pub value_params: Vec<f64>,
    /// Policy optimizer state.
    pub policy_opt: AdamSnapshot,
    /// Value optimizer state.
    pub value_opt: AdamSnapshot,
}

/// PPO agent: policy network, value network, and their optimizers.
#[derive(Debug, Clone)]
pub struct PpoTrainer {
    config: PpoConfig,
    policy: Mlp,
    value: Mlp,
    policy_opt: Adam,
    value_opt: Adam,
    buffer: RolloutBuffer,
    num_actions: usize,
    total_steps: u64,
    total_updates: u64,
    loss_history: Vec<(u64, PpoLosses)>,
}

impl PpoTrainer {
    /// Creates a trainer for observations of dimension `state_dim` and
    /// `num_actions` discrete actions. `seed` draws the initial weights.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `num_actions` is zero.
    #[must_use]
    pub fn new(state_dim: usize, num_actions: usize, config: &PpoConfig, seed: u64) -> Self {
        assert!(
            state_dim > 0 && num_actions > 0,
            "dimensions must be positive"
        );
        let mut policy_sizes = vec![state_dim];
        policy_sizes.extend_from_slice(&config.hidden_sizes);
        policy_sizes.push(num_actions);
        let mut value_sizes = vec![state_dim];
        value_sizes.extend_from_slice(&config.hidden_sizes);
        value_sizes.push(1);
        let policy = Mlp::new(&policy_sizes, seed.wrapping_mul(2).wrapping_add(1));
        let value = Mlp::new(&value_sizes, seed.wrapping_mul(2).wrapping_add(2));
        let policy_opt = Adam::new(policy.num_parameters(), config.learning_rate);
        let value_opt = Adam::new(value.num_parameters(), config.learning_rate);
        Self {
            config: config.clone(),
            policy,
            value,
            policy_opt,
            value_opt,
            buffer: RolloutBuffer::new(),
            num_actions,
            total_steps: 0,
            total_updates: 0,
            loss_history: Vec::new(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Number of environment steps observed so far.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Number of gradient updates performed so far.
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.total_updates
    }

    /// `(steps, losses)` history of every update, for loss-curve figures.
    #[must_use]
    pub fn loss_history(&self) -> &[(u64, PpoLosses)] {
        &self.loss_history
    }

    /// Captures a [`PolicySnapshot`] of the trained agent (see its docs for
    /// what is and is not included).
    #[must_use]
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            config: self.config.clone(),
            num_actions: self.num_actions,
            total_steps: self.total_steps,
            total_updates: self.total_updates,
            loss_history: self.loss_history.clone(),
            policy_layer_sizes: self.policy.layer_sizes().to_vec(),
            policy_params: self.policy.parameters(),
            value_layer_sizes: self.value.layer_sizes().to_vec(),
            value_params: self.value.parameters(),
            policy_opt: AdamSnapshot::of(&self.policy_opt),
            value_opt: AdamSnapshot::of(&self.value_opt),
        }
    }

    /// Reconstructs a trainer from a [`PolicySnapshot`], moving its vectors
    /// in and drawing no network initialization. The rollout buffer starts
    /// empty; frozen policy/value evaluation is bit-identical to the
    /// snapshotted trainer.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's parameter vectors do not match its layer
    /// sizes.
    #[must_use]
    pub fn from_snapshot(snapshot: PolicySnapshot) -> Self {
        Self {
            policy: Mlp::from_parameters(&snapshot.policy_layer_sizes, &snapshot.policy_params),
            value: Mlp::from_parameters(&snapshot.value_layer_sizes, &snapshot.value_params),
            config: snapshot.config,
            policy_opt: snapshot.policy_opt.restore(),
            value_opt: snapshot.value_opt.restore(),
            buffer: RolloutBuffer::new(),
            num_actions: snapshot.num_actions,
            total_steps: snapshot.total_steps,
            total_updates: snapshot.total_updates,
            loss_history: snapshot.loss_history,
        }
    }

    /// Samples an action for `state` under `mask` (empty slice = no masking)
    /// with the caller's `rng` and returns `(action, log_prob,
    /// value_estimate)`. The trainer is not mutated, so rollout workers can
    /// step one *frozen* policy with their own seed-split generators.
    ///
    /// # Panics
    ///
    /// Panics if the mask disallows every action.
    pub fn policy_step<R: Rng + ?Sized>(
        &self,
        state: &[f64],
        mask: &[bool],
        rng: &mut R,
    ) -> (usize, f64, f64) {
        let dist = self.distribution(state, mask);
        let action = dist.sample(rng);
        let log_prob = dist.log_prob(action);
        let value = self.value.forward(state, &[])[0];
        (action, log_prob, value)
    }

    /// Greedy action (argmax of the masked policy), used after training.
    #[must_use]
    pub fn best_action(&self, state: &[f64], mask: &[bool]) -> usize {
        self.distribution(state, mask).argmax()
    }

    /// The policy's action distribution at `state`, computing only the
    /// logits `mask` allows.
    fn distribution(&self, state: &[f64], mask: &[bool]) -> MaskedCategorical {
        let logits = self.policy.forward(state, mask);
        MaskedCategorical::new(&logits, (!mask.is_empty()).then_some(mask))
    }

    /// Stores a transition collected from the environment.
    pub fn record(&mut self, transition: Transition) {
        self.total_steps += 1;
        self.buffer.push(transition);
    }

    /// Number of transitions waiting in the rollout buffer.
    #[must_use]
    pub fn pending_transitions(&self) -> usize {
        self.buffer.len()
    }

    /// Runs a PPO update if enough transitions have been collected
    /// (see [`PpoConfig::batch_size`]). Call at episode boundaries.
    pub fn update_if_ready(&mut self) -> Option<PpoLosses> {
        self.update_if_ready_on(&Exec::serial())
    }

    /// [`PpoTrainer::update_if_ready`] with the policy and value passes run
    /// as two tasks on `exec` (see [`PpoTrainer::update_on`]). An empty
    /// buffer never updates, whatever the batch size.
    pub fn update_if_ready_on(&mut self, exec: &Exec) -> Option<PpoLosses> {
        (!self.buffer.is_empty() && self.buffer.len() >= self.config.batch_size)
            .then(|| self.update_on(exec))
    }

    /// Runs a PPO update on whatever is currently in the buffer and clears it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn update(&mut self) -> PpoLosses {
        self.update_on(&Exec::serial())
    }

    /// [`PpoTrainer::update`] with the policy network's epochs and the value
    /// network's epochs run as two tasks on `exec`. The two share no state:
    /// each reads the fixed advantages or returns and steps only its own
    /// network and optimizer, in its own per-sample order, so the result is
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn update_on(&mut self, exec: &Exec) -> PpoLosses {
        assert!(
            !self.buffer.is_empty(),
            "cannot update from an empty buffer"
        );
        let (mut advantages, returns) = self
            .buffer
            .advantages_and_returns(self.config.gamma, self.config.gae_lambda);

        // Advantage normalization stabilizes training.
        let mean = advantages.iter().sum::<f64>() / advantages.len() as f64;
        let var = advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / advantages.len() as f64;
        let std = var.sqrt().max(1e-8);
        for a in &mut advantages {
            *a = (*a - mean) / std;
        }

        let transitions = self.buffer.transitions();
        let config = &self.config;
        let ((policy_loss, entropy_loss), value_loss) = exec.join(
            || {
                policy_epochs(
                    &mut self.policy,
                    &mut self.policy_opt,
                    transitions,
                    &advantages,
                    config,
                )
            },
            || {
                value_epochs(
                    &mut self.value,
                    &mut self.value_opt,
                    transitions,
                    &returns,
                    config,
                )
            },
        );
        let last = PpoLosses {
            policy_loss,
            entropy_loss,
            value_loss,
            total_loss: policy_loss
                + config.entropy_coef * entropy_loss
                + config.value_coef * value_loss,
        };

        self.buffer.clear();
        self.total_updates += 1;
        self.loss_history.push((self.total_steps, last));
        last
    }
}

/// Runs every epoch of one update on the policy network and returns the
/// last epoch's `(policy_loss, entropy_loss)` (zeros for zero epochs).
///
/// Only the logits the transition's mask allows are computed and
/// backpropagated: a masked action has probability zero, so its gradient
/// is exactly zero and [`Mlp::backward`] would skip it anyway.
fn policy_epochs(
    net: &mut Mlp,
    opt: &mut Adam,
    transitions: &[Transition],
    advantages: &[f64],
    config: &PpoConfig,
) -> (f64, f64) {
    let n = transitions.len() as f64;
    let mut acts = Activations::default();
    let mut grad_logits = vec![0.0; net.output_dim()];
    let mut last = (0.0, 0.0);
    for _ in 0..config.epochs {
        net.zero_grad();
        let mut policy_loss = 0.0;
        let mut entropy_loss = 0.0;
        for (t, &adv) in transitions.iter().zip(advantages) {
            net.forward_into(&t.state, &t.mask, &mut acts);
            let mask = (!t.mask.is_empty()).then_some(&t.mask[..]);
            let dist = MaskedCategorical::new(acts.output(), mask);
            let new_log_prob = dist.log_prob(t.action);
            let ratio = (new_log_prob - t.log_prob).exp();
            let clipped = ratio.clamp(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon);
            let surr1 = ratio * adv;
            let surr2 = clipped * adv;
            policy_loss += -surr1.min(surr2);
            let entropy = dist.entropy();
            entropy_loss += -entropy;

            // Gradient of the per-sample loss w.r.t. the logits. Masked
            // actions come out as exact zeros, which `backward` skips.
            for (k, g) in grad_logits.iter_mut().enumerate() {
                *g = 0.0;
                if surr1 <= surr2 {
                    // Unclipped branch is active: d(-ratio·adv)/dlogits.
                    *g += -ratio * adv * dist.grad_log_prob_at(t.action, k);
                }
                // Entropy term: c_ε · d(-H)/dlogits.
                *g += config.entropy_coef * (-dist.grad_entropy_at(k, entropy));
                // Scale by 1/n for the batch mean.
                *g /= n;
            }
            net.backward(&acts, &grad_logits);
        }
        adam_step(net, opt);
        last = (policy_loss / n, entropy_loss / n);
    }
    last
}

/// Runs every epoch of one update on the value network and returns the last
/// epoch's value loss (zero for zero epochs).
fn value_epochs(
    net: &mut Mlp,
    opt: &mut Adam,
    transitions: &[Transition],
    returns: &[f64],
    config: &PpoConfig,
) -> f64 {
    let n = transitions.len() as f64;
    let mut acts = Activations::default();
    let mut last = 0.0;
    for _ in 0..config.epochs {
        net.zero_grad();
        let mut value_loss = 0.0;
        for (t, &ret) in transitions.iter().zip(returns) {
            net.forward_into(&t.state, &[], &mut acts);
            let err = acts.output()[0] - ret;
            value_loss += 0.5 * err * err;
            net.backward(&acts, &[config.value_coef * err / n]);
        }
        adam_step(net, opt);
        last = value_loss / n;
    }
    last
}

/// Applies one optimizer step with the network's accumulated gradients.
fn adam_step(net: &mut Mlp, opt: &mut Adam) {
    let mut params = net.parameters();
    opt.step(&mut params, &net.gradients());
    net.set_parameters(&params);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gae_on_single_episode_matches_hand_computation() {
        let mut buffer = RolloutBuffer::new();
        // Two-step episode: rewards 1 then 2, values 0.5 and 0.25.
        buffer.push(Transition {
            state: vec![0.0],
            mask: vec![],
            action: 0,
            reward: 1.0,
            done: false,
            log_prob: 0.0,
            value: 0.5,
        });
        buffer.push(Transition {
            state: vec![0.0],
            mask: vec![],
            action: 0,
            reward: 2.0,
            done: true,
            log_prob: 0.0,
            value: 0.25,
        });
        let gamma = 0.9;
        let lambda = 0.8;
        let (adv, ret) = buffer.advantages_and_returns(gamma, lambda);
        let delta1 = 2.0 + 0.0 - 0.25;
        let delta0 = 1.0 + gamma * 0.25 - 0.5;
        let expected_adv1 = delta1;
        let expected_adv0 = delta0 + gamma * lambda * delta1;
        assert!((adv[1] - expected_adv1).abs() < 1e-12);
        assert!((adv[0] - expected_adv0).abs() < 1e-12);
        assert!((ret[0] - (adv[0] + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn gae_resets_across_episode_boundaries() {
        let mut buffer = RolloutBuffer::new();
        for _ in 0..2 {
            buffer.push(Transition {
                state: vec![0.0],
                mask: vec![],
                action: 0,
                reward: 1.0,
                done: true,
                log_prob: 0.0,
                value: 0.0,
            });
        }
        let (adv, _) = buffer.advantages_and_returns(0.99, 0.95);
        assert!(
            (adv[0] - adv[1]).abs() < 1e-12,
            "identical isolated episodes"
        );
    }

    #[test]
    fn trainer_learns_two_armed_bandit() {
        let config = PpoConfig {
            batch_size: 16,
            learning_rate: 0.01,
            hidden_sizes: vec![16],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(1, 2, &config, 11);
        let mut rng = StdRng::seed_from_u64(11);
        let state = vec![1.0];
        let mut last_hundred = Vec::new();
        for episode in 0..400 {
            let (action, log_prob, value) = trainer.policy_step(&state, &[], &mut rng);
            let reward = if action == 1 { 1.0 } else { 0.0 };
            trainer.record(Transition {
                state: state.clone(),
                mask: vec![],
                action,
                reward,
                done: true,
                log_prob,
                value,
            });
            trainer.update_if_ready();
            if episode >= 300 {
                last_hundred.push(reward);
            }
        }
        let mean: f64 = last_hundred.iter().sum::<f64>() / last_hundred.len() as f64;
        assert!(
            mean > 0.85,
            "agent should prefer the rewarding arm, got {mean}"
        );
        assert!(trainer.total_updates() > 0);
        assert!(!trainer.loss_history().is_empty());
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let trainer = PpoTrainer::new(2, 4, &PpoConfig::default(), 5);
        let mut rng = StdRng::seed_from_u64(5);
        let mask = vec![false, true, false, true];
        for _ in 0..100 {
            let (a, _, _) = trainer.policy_step(&[0.2, -0.3], &mask, &mut rng);
            assert!(mask[a]);
        }
        assert!(mask[trainer.best_action(&[0.2, -0.3], &mask)]);
    }

    #[test]
    fn higher_entropy_coefficient_keeps_entropy_higher() {
        // Train two agents on the bandit; the boosted-exploration one should
        // retain a more stochastic policy (smaller |entropy loss|).
        let run = |config: PpoConfig| -> f64 {
            let mut trainer = PpoTrainer::new(1, 2, &config, 3);
            let mut rng = StdRng::seed_from_u64(3);
            let state = vec![1.0];
            for _ in 0..200 {
                let (action, log_prob, value) = trainer.policy_step(&state, &[], &mut rng);
                let reward = if action == 1 { 1.0 } else { 0.0 };
                trainer.record(Transition {
                    state: state.clone(),
                    mask: vec![],
                    action,
                    reward,
                    done: true,
                    log_prob,
                    value,
                });
                trainer.update_if_ready();
            }
            // Report the final policy entropy H = -entropy_loss.
            trainer
                .loss_history()
                .last()
                .map(|(_, l)| -l.entropy_loss)
                .unwrap_or(0.0)
        };
        let default_entropy = run(PpoConfig {
            batch_size: 16,
            ..PpoConfig::default()
        });
        let boosted_entropy = run(PpoConfig {
            batch_size: 16,
            ..PpoConfig::boosted_exploration()
        });
        assert!(
            boosted_entropy >= default_entropy - 1e-9,
            "boosted exploration should keep policy entropy at least as high: \
             boosted {boosted_entropy} vs default {default_entropy}"
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_frozen_behaviour() {
        // Train a little so the optimizer moments and loss history are
        // non-trivial, then check the restored trainer is indistinguishable
        // under frozen-policy use.
        let config = PpoConfig {
            batch_size: 16,
            hidden_sizes: vec![8],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(2, 3, &config, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let state = vec![0.4, -0.1];
        for _ in 0..40 {
            let (action, log_prob, value) = trainer.policy_step(&state, &[], &mut rng);
            trainer.record(Transition {
                state: state.clone(),
                mask: vec![],
                action,
                reward: f64::from(u8::from(action == 2)),
                done: true,
                log_prob,
                value,
            });
            trainer.update_if_ready();
        }
        let snapshot = trainer.snapshot();
        let restored = PpoTrainer::from_snapshot(snapshot.clone());
        assert_eq!(restored.snapshot(), snapshot, "snapshot is a fixed point");
        assert_eq!(restored.loss_history(), trainer.loss_history());
        assert_eq!(restored.total_steps(), trainer.total_steps());
        assert_eq!(restored.total_updates(), trainer.total_updates());
        assert_eq!(
            restored.best_action(&state, &[]),
            trainer.best_action(&state, &[])
        );
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(
            trainer.policy_step(&state, &[], &mut a),
            restored.policy_step(&state, &[], &mut b),
            "frozen sampling must match given the same RNG stream"
        );
        assert_eq!(restored.pending_transitions(), 0, "buffer not captured");
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn update_on_empty_buffer_panics() {
        let mut trainer = PpoTrainer::new(1, 2, &PpoConfig::default(), 1);
        let _ = trainer.update();
    }
}
