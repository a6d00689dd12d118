//! From-scratch reinforcement learning substrate.
//!
//! The DETERRENT paper trains its agent with Proximal Policy Optimization
//! (PPO) in PyTorch. No deep-learning framework is available to this
//! reproduction, so this crate implements the required pieces directly:
//!
//! * [`Mlp`] — a multi-layer perceptron with tanh hidden activations and
//!   exact-sparse manual backpropagation: the first layer visits only the
//!   input's nonzero columns, the output layer only the rows an action mask
//!   allows, and backpropagation only rows with a nonzero gradient. Each
//!   skipped term is an exact zero, so results are bit-identical to dense
//!   loops (see [`Mlp`] for the argument).
//! * [`Adam`] — the Adam optimizer.
//! * [`MaskedCategorical`] — a categorical action distribution with invalid
//!   actions masked out, as used by DETERRENT's action-masking architecture.
//! * [`RolloutBuffer`] + GAE(λ) advantage estimation.
//! * [`PpoTrainer`] — clipped-surrogate PPO with entropy and value losses,
//!   exposing the knobs the paper tunes (entropy coefficient `c_ε`, value
//!   coefficient `c_v`, smoothing parameter `λ`). [`PpoTrainer::update_on`]
//!   runs the policy and value networks' passes as two tasks on an
//!   `exec::Exec`, bit-identical at any thread count.
//! * [`Environment`] — the environment interface implemented by
//!   `deterrent-core`'s compatible-set MDP, plus a generic [`train`] loop.
//! * [`collect_episodes`] / [`train_parallel`] — deterministic parallel
//!   rollout collection: frozen-policy rounds fanned out over seed-split
//!   per-episode environments, bit-identical at any thread count.
//!
//! # Example
//!
//! ```
//! use rl::{train, Environment, PpoConfig, PpoTrainer, StepOutcome, TrainOptions};
//!
//! /// Two-armed bandit: action 1 pays off, action 0 does not.
//! struct Bandit;
//! impl Environment for Bandit {
//!     fn state_dim(&self) -> usize { 1 }
//!     fn num_actions(&self) -> usize { 2 }
//!     fn reset(&mut self) -> Vec<f64> { vec![1.0] }
//!     fn step(&mut self, action: usize) -> StepOutcome {
//!         StepOutcome { state: vec![1.0], reward: if action == 1 { 1.0 } else { 0.0 }, done: true }
//!     }
//! }
//!
//! let mut env = Bandit;
//! let config = PpoConfig { batch_size: 32, learning_rate: 0.01, hidden_sizes: vec![16], ..PpoConfig::default() };
//! let mut trainer = PpoTrainer::new(1, 2, &config, 7);
//! let report = train(&mut env, &mut trainer, &TrainOptions { episodes: 400, max_steps: 1, seed: 3 });
//! assert!(report.mean_reward_last(50) > 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod distribution;
mod env;
mod mlp;
mod ppo;
mod rollout;

pub use adam::Adam;
pub use distribution::MaskedCategorical;
pub use env::{train, Environment, StepOutcome, TrainOptions, TrainReport};
pub use mlp::{Activations, Mlp};
pub use ppo::{
    AdamSnapshot, PolicySnapshot, PpoConfig, PpoLosses, PpoTrainer, RolloutBuffer, Transition,
};
pub use rollout::{
    collect_episodes, train_parallel, train_parallel_observed, CollectOptions, EpisodeOutcome,
    ParallelTrainOptions, ParallelTrainOutcome, RoundProgress,
};
