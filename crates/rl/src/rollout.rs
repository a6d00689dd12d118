//! Deterministic parallel episode collection and the frozen-policy PPO
//! training loop built on it — the crate's only episode loop.
//!
//! [`train_parallel`] alternates two phases:
//!
//! 1. **Collect.** A fixed-size *round* of episodes is rolled out against a
//!    frozen snapshot of the policy, fanned out over worker threads
//!    ([`collect_episodes`]). Episode `e` gets its own environment clone and
//!    its own action RNG, both seeded by splitting the master seed with the
//!    **global episode index** — never the worker id — so the trajectories
//!    are bit-identical at any thread count and are merged back in episode
//!    order.
//! 2. **Learn.** The round's transitions are fed to the trainer in episode
//!    order, triggering the usual batch-size-driven PPO updates.
//!
//! Because the round size is a configuration constant (not derived from the
//! hardware), the entire training run — losses, final weights, harvested
//! sets — is a pure function of the configuration and seed.

use std::time::Instant;

use exec::{split_seed, Exec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Environment, PpoTrainer, TrainReport, Transition};

/// Salt separating an episode's *action* stream from its *environment*
/// stream (both are split from the same master seed and episode index).
const ACTION_STREAM_SALT: u64 = 0xAC71_0257_ACCE_55ED;

/// Options for [`collect_episodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectOptions {
    /// Number of episodes to collect.
    pub count: usize,
    /// Maximum steps per episode (episodes may end earlier via `done`).
    pub max_steps: usize,
    /// Master seed; per-episode streams are split from it.
    pub seed: u64,
    /// Global index of the first episode — episode `k` of this call uses
    /// stream `first_episode + k`, letting successive calls (training
    /// rounds, evaluation sweeps) draw disjoint stream ranges from one
    /// master seed.
    pub first_episode: u64,
    /// `true` rolls out the greedy policy (argmax, no sampling) and records
    /// no transitions: the episodes are meant for harvesting, not learning.
    pub greedy: bool,
}

/// One collected episode, in the order the steps happened.
#[derive(Debug, Clone)]
pub struct EpisodeOutcome<H> {
    /// The episode's transitions (empty for greedy rollouts).
    pub transitions: Vec<Transition>,
    /// Sum of the rewards.
    pub total_reward: f64,
    /// Whatever the `finish` hook extracted from the episode's environment.
    pub harvest: H,
}

/// Rolls out `options.count` episodes of `proto` clones under the trainer's
/// **frozen** current policy, in parallel on `exec`, returning the episodes
/// in episode-index order (bit-identical at any thread count).
///
/// `finish` runs once per episode on that episode's environment after its
/// last step — the hook for draining per-episode state such as harvested
/// final sets.
pub fn collect_episodes<E, H, F>(
    proto: &E,
    trainer: &PpoTrainer,
    options: &CollectOptions,
    exec: &Exec,
    finish: F,
) -> Vec<EpisodeOutcome<H>>
where
    E: Environment + Clone + Sync,
    H: Send,
    F: Fn(&mut E) -> H + Sync,
{
    exec.par_index_map(options.count, |k| {
        let stream = options.first_episode + k as u64;
        let mut env = proto.clone();
        env.reseed(split_seed(options.seed, stream));
        let mut rng = StdRng::seed_from_u64(split_seed(options.seed ^ ACTION_STREAM_SALT, stream));
        let mut transitions = Vec::new();
        let mut state = env.reset();
        let mut total_reward = 0.0;
        for _ in 0..options.max_steps {
            let mask = env.action_mask();
            if !mask.is_empty() && !mask.iter().any(|&m| m) {
                break;
            }
            let (action, sampled) = if options.greedy {
                (trainer.best_action(&state, &mask), None)
            } else {
                let (action, log_prob, value) = trainer.policy_step(&state, &mask, &mut rng);
                (action, Some((log_prob, value)))
            };
            let outcome = env.step(action);
            total_reward += outcome.reward;
            if let Some((log_prob, value)) = sampled {
                transitions.push(Transition {
                    state: std::mem::take(&mut state),
                    mask,
                    action,
                    reward: outcome.reward,
                    done: outcome.done,
                    log_prob,
                    value,
                });
            }
            state = outcome.state;
            if outcome.done {
                break;
            }
        }
        EpisodeOutcome {
            transitions,
            total_reward,
            harvest: finish(&mut env),
        }
    })
}

/// Options for [`train_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelTrainOptions {
    /// Total number of episodes to run.
    pub episodes: usize,
    /// Maximum steps per episode.
    pub max_steps: usize,
    /// Episodes collected per frozen-policy round. A configuration constant
    /// — deriving it from the thread count would make training depend on the
    /// hardware.
    pub round_episodes: usize,
    /// Master seed for the per-episode environment and action streams.
    pub seed: u64,
}

/// Result of [`train_parallel`]: the usual report plus the per-episode
/// harvests in episode order.
#[derive(Debug, Clone)]
pub struct ParallelTrainOutcome<H> {
    /// Episode rewards/lengths, losses, and wall-clock of the run.
    pub report: TrainReport,
    /// One `finish` result per episode, in episode order.
    pub harvests: Vec<H>,
}

/// Frozen-policy round-based PPO training (see the module docs): collect a
/// round of episodes in parallel, learn from them in episode order, repeat.
///
/// The result is deterministic for a fixed configuration and seed,
/// regardless of `exec`'s thread count.
pub fn train_parallel<E, H, F>(
    proto: &E,
    trainer: &mut PpoTrainer,
    options: &ParallelTrainOptions,
    exec: &Exec,
    finish: F,
) -> ParallelTrainOutcome<H>
where
    E: Environment + Clone + Sync,
    H: Send,
    F: Fn(&mut E) -> H + Sync,
{
    let start = Instant::now();
    let mut report = TrainReport::default();
    let mut harvests = Vec::with_capacity(options.episodes);
    let round = options.round_episodes.max(1);
    let mut next_episode = 0usize;
    while next_episode < options.episodes {
        let count = round.min(options.episodes - next_episode);
        let outcomes = collect_episodes(
            proto,
            trainer,
            &CollectOptions {
                count,
                max_steps: options.max_steps,
                seed: options.seed,
                first_episode: next_episode as u64,
                greedy: false,
            },
            exec,
            &finish,
        );
        for episode in outcomes {
            let steps = episode.transitions.len();
            for transition in episode.transitions {
                trainer.record(transition);
            }
            let update = Instant::now();
            if let Some(losses) = trainer.update_if_ready_on(exec) {
                report.ppo_update_ns += update.elapsed().as_nanos() as u64;
                report.losses.push((trainer.total_steps(), losses));
            }
            report.episode_rewards.push(episode.total_reward);
            report.episode_lengths.push(steps);
            harvests.push(episode.harvest);
        }
        next_episode += count;
    }
    report.wall_seconds = start.elapsed().as_secs_f64();
    ParallelTrainOutcome { report, harvests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PpoConfig, StepOutcome};

    /// Bandit whose payoff arm is chosen by `reseed`, exercising the
    /// per-episode environment streams.
    #[derive(Clone)]
    struct SeededBandit {
        paying_arm: usize,
    }

    impl Environment for SeededBandit {
        fn reset(&mut self) -> Vec<f64> {
            vec![self.paying_arm as f64]
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            StepOutcome {
                state: vec![self.paying_arm as f64],
                reward: if action == self.paying_arm { 1.0 } else { 0.0 },
                done: true,
            }
        }
        fn reseed(&mut self, seed: u64) {
            self.paying_arm = (seed % 2) as usize;
        }
    }

    /// Every action is always masked, so each episode ends before step 0.
    #[derive(Clone)]
    struct Stuck;

    impl Environment for Stuck {
        fn reset(&mut self) -> Vec<f64> {
            vec![0.0]
        }
        fn step(&mut self, _action: usize) -> StepOutcome {
            unreachable!("every action is masked")
        }
        fn action_mask(&self) -> Vec<bool> {
            vec![false; 2]
        }
    }

    fn transitions_digest(outcomes: &[EpisodeOutcome<usize>]) -> Vec<(usize, f64, f64, usize)> {
        outcomes
            .iter()
            .flat_map(|e| {
                e.transitions
                    .iter()
                    .map(|t| (t.action, t.reward, t.log_prob, e.harvest))
            })
            .collect()
    }

    #[test]
    fn collection_is_bit_identical_across_thread_counts() {
        let proto = SeededBandit { paying_arm: 0 };
        let trainer = PpoTrainer::new(1, 2, &PpoConfig::default(), 3);
        let options = CollectOptions {
            count: 40,
            max_steps: 4,
            seed: 99,
            first_episode: 0,
            greedy: false,
        };
        let collect = |threads| {
            collect_episodes(&proto, &trainer, &options, &Exec::new(threads), |env| {
                env.paying_arm
            })
        };
        let serial = collect(1);
        for threads in [2, 4, 7] {
            assert_eq!(
                transitions_digest(&serial),
                transitions_digest(&collect(threads)),
                "{threads} threads"
            );
        }
        // The reseed hook ran: both arms appear as initial conditions.
        let arms: Vec<usize> = serial.iter().map(|e| e.harvest).collect();
        assert!(arms.contains(&0) && arms.contains(&1));
    }

    #[test]
    fn zero_step_episodes_never_update_even_at_batch_size_zero() {
        let config = PpoConfig {
            batch_size: 0,
            hidden_sizes: vec![4],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(1, 2, &config, 1);
        let options = ParallelTrainOptions {
            episodes: 3,
            max_steps: 4,
            round_episodes: 2,
            seed: 1,
        };
        let outcome = train_parallel(&Stuck, &mut trainer, &options, &Exec::new(2), |_| ());
        assert_eq!(outcome.report.episode_lengths, vec![0, 0, 0]);
        assert!(outcome.report.losses.is_empty());
        assert_eq!(trainer.total_updates(), 0);
    }

    #[test]
    fn first_episode_offsets_give_disjoint_streams() {
        let proto = SeededBandit { paying_arm: 0 };
        let trainer = PpoTrainer::new(1, 2, &PpoConfig::default(), 3);
        let base = CollectOptions {
            count: 8,
            max_steps: 1,
            seed: 7,
            first_episode: 0,
            greedy: false,
        };
        let exec = Exec::serial();
        let a = collect_episodes(&proto, &trainer, &base, &exec, |e| e.paying_arm);
        let b = collect_episodes(
            &proto,
            &trainer,
            &CollectOptions {
                first_episode: 8,
                ..base
            },
            &exec,
            |e| e.paying_arm,
        );
        // Streams 8..16 continue where 0..8 left off: collecting 16 from 0
        // reproduces the concatenation.
        let all = collect_episodes(
            &proto,
            &trainer,
            &CollectOptions { count: 16, ..base },
            &exec,
            |e| e.paying_arm,
        );
        let concat: Vec<_> = transitions_digest(&a)
            .into_iter()
            .chain(transitions_digest(&b))
            .collect();
        assert_eq!(concat, transitions_digest(&all));
    }

    /// A [`SeededBandit`] that logs the actions it is given, so a harvest
    /// shows what a rollout chose.
    #[derive(Clone)]
    struct Logged {
        bandit: SeededBandit,
        actions: Vec<usize>,
    }

    impl Environment for Logged {
        fn reset(&mut self) -> Vec<f64> {
            self.bandit.reset()
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            self.actions.push(action);
            self.bandit.step(action)
        }
        fn reseed(&mut self, seed: u64) {
            self.bandit.reseed(seed);
        }
    }

    #[test]
    fn greedy_mode_is_deterministic_and_skips_sampling() {
        let proto = Logged {
            bandit: SeededBandit { paying_arm: 1 },
            actions: Vec::new(),
        };
        let trainer = PpoTrainer::new(1, 2, &PpoConfig::default(), 5);
        let options = CollectOptions {
            count: 12,
            max_steps: 3,
            seed: 1,
            first_episode: 0,
            greedy: true,
        };
        let harvests = |threads| {
            collect_episodes(&proto, &trainer, &options, &Exec::new(threads), |env| {
                (env.bandit.paying_arm, std::mem::take(&mut env.actions))
            })
            .into_iter()
            .map(|episode| {
                assert!(
                    episode.transitions.is_empty(),
                    "greedy keeps no transitions"
                );
                episode.harvest
            })
            .collect::<Vec<_>>()
        };
        let serial = harvests(1);
        for threads in [3, 7] {
            assert_eq!(serial, harvests(threads), "{threads} threads");
        }
        // Every episode took the policy's argmax, not a sample.
        for (arm, actions) in &serial {
            assert_eq!(actions, &[trainer.best_action(&[*arm as f64], &[])]);
        }
    }

    #[test]
    fn train_parallel_learns_and_is_thread_count_invariant() {
        let config = PpoConfig {
            batch_size: 16,
            learning_rate: 0.01,
            hidden_sizes: vec![16],
            ..PpoConfig::default()
        };
        let options = ParallelTrainOptions {
            episodes: 300,
            max_steps: 1,
            round_episodes: 8,
            seed: 13,
        };
        let run = |threads: usize| {
            let proto = SeededBandit { paying_arm: 0 };
            let mut trainer = PpoTrainer::new(1, 2, &config, 11);
            let outcome =
                train_parallel(&proto, &mut trainer, &options, &Exec::new(threads), |_| ());
            (outcome.report.episode_rewards, trainer)
        };
        let (rewards_serial, trainer_serial) = run(1);
        let (rewards_parallel, trainer_parallel) = run(4);
        assert_eq!(
            rewards_serial, rewards_parallel,
            "training must not depend on the thread count"
        );
        assert_eq!(
            trainer_serial.loss_history(),
            trainer_parallel.loss_history()
        );
        // The arm depends on the episode seed; the trained policy should
        // read it off the observation most of the time.
        let tail = &rewards_serial[rewards_serial.len() - 100..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean > 0.8, "agent should learn the seeded bandit: {mean}");
    }
}
