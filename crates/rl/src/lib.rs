//! From-scratch reinforcement learning substrate.
//!
//! The DETERRENT paper trains its agent with Proximal Policy Optimization
//! (PPO) in PyTorch. No deep-learning framework is available to this
//! reproduction, so this crate implements the required pieces directly:
//!
//! * [`Mlp`] — a multi-layer perceptron with tanh hidden activations and
//!   exact-sparse manual backpropagation: the first layer visits only the
//!   input's nonzero columns, reading one contiguous row of its input-major
//!   weights per column; the output layer only the rows an action mask
//!   allows; and the later layers' backpropagation only rows with a nonzero
//!   gradient. Each skipped term is an exact zero, so results are
//!   bit-identical to dense loops (see [`Mlp`] for the argument and the
//!   storage layout; [`Mlp::parameters`] restores the public row-major
//!   order).
//! * [`Adam`] — the Adam optimizer, stepping a network's flat parameter
//!   vector in place.
//! * [`MaskedCategorical`] — a categorical action distribution with invalid
//!   actions masked out, as used by DETERRENT's action-masking architecture.
//!   It keeps and walks only the allowed actions.
//! * [`PpoTrainer`] — clipped-surrogate PPO with entropy and value losses
//!   and GAE(λ) advantages, exposing the knobs the paper tunes (entropy
//!   coefficient `c_ε`, value coefficient `c_v`, smoothing parameter `λ`).
//!   It holds no RNG: [`PpoTrainer::policy_step`] samples with the caller's,
//!   and [`PpoTrainer::best_action`] is the greedy choice.
//!   [`PpoTrainer::update_on`] lists each buffered transition's nonzero
//!   input columns and allowed actions once, then runs the policy and value
//!   networks' epochs over those lists as two tasks on an `exec::Exec`,
//!   bit-identical at any thread count. A [`PolicySnapshot`] holds the
//!   parameters and Adam moments in public order.
//! * [`Environment`] — the environment interface implemented by
//!   `deterrent-core`'s compatible-set MDP.
//! * [`collect_episodes`] / [`train_parallel`] — the episode loop:
//!   deterministic parallel rollout collection, with frozen-policy rounds
//!   fanned out over seed-split per-episode environments, bit-identical at
//!   any thread count.
//!
//! # Example
//!
//! ```
//! use exec::Exec;
//! use rl::{train_parallel, Environment, ParallelTrainOptions, PpoConfig, PpoTrainer, StepOutcome};
//!
//! /// Two-armed bandit: action 1 pays off, action 0 does not.
//! #[derive(Clone)]
//! struct Bandit;
//! impl Environment for Bandit {
//!     fn reset(&mut self) -> Vec<f64> { vec![1.0] }
//!     fn step(&mut self, action: usize) -> StepOutcome {
//!         StepOutcome { state: vec![1.0], reward: if action == 1 { 1.0 } else { 0.0 }, done: true }
//!     }
//! }
//!
//! let config = PpoConfig { batch_size: 32, learning_rate: 0.01, hidden_sizes: vec![16], ..PpoConfig::default() };
//! let mut trainer = PpoTrainer::new(1, 2, &config, 7);
//! let options = ParallelTrainOptions { episodes: 400, max_steps: 1, round_episodes: 8, seed: 3 };
//! let outcome = train_parallel(&Bandit, &mut trainer, &options, &Exec::new(2), |_| ());
//! assert!(outcome.report.mean_reward_last(50) > 0.7);
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
pub use env::{Environment, StepOutcome, TrainReport};
pub use mlp::{Activations, Mlp};
pub use ppo::{AdamSnapshot, PolicySnapshot, PpoConfig, PpoLosses, PpoTrainer, Transition};
pub use rollout::{
    collect_episodes, train_parallel, CollectOptions, EpisodeOutcome, ParallelTrainOptions,
    ParallelTrainOutcome,
};
