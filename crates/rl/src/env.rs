//! Environment interface and the training report.

use crate::PpoLosses;

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Observation after the step.
    pub state: Vec<f64>,
    /// Reward for the step.
    pub reward: f64,
    /// Whether the episode has terminated.
    pub done: bool,
}

/// A discrete-action episodic environment.
///
/// `deterrent-core` implements this trait for the compatible-rare-net MDP;
/// the trait is deliberately minimal so baselines and tests can provide toy
/// environments too.
pub trait Environment {
    /// Starts a new episode and returns the initial observation.
    fn reset(&mut self) -> Vec<f64>;
    /// Applies `action` and returns the outcome.
    fn step(&mut self, action: usize) -> StepOutcome;
    /// Mask of currently valid actions (empty = all valid). Re-queried after
    /// every step.
    fn action_mask(&self) -> Vec<bool> {
        Vec::new()
    }
    /// Re-seeds the environment's internal randomness, if it has any.
    ///
    /// Parallel rollout collection clones one prototype environment per
    /// episode and calls this with a seed split from the *episode index*, so
    /// episode initial conditions are reproducible and independent of the
    /// thread count. Deterministic environments can ignore it (the default
    /// does nothing).
    fn reseed(&mut self, _seed: u64) {}
}

/// Summary of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Total reward obtained in each episode.
    pub episode_rewards: Vec<f64>,
    /// Number of environment steps taken in each episode.
    pub episode_lengths: Vec<usize>,
    /// Loss snapshots `(total_env_steps, losses)` for every PPO update.
    pub losses: Vec<(u64, PpoLosses)>,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Nanoseconds the run spent in PPO updates. Measured by the run that
    /// trains; a report restored from storage reads `0`.
    pub ppo_update_ns: u64,
}

impl TrainReport {
    /// Mean episode reward over the last `n` episodes (or all of them if
    /// fewer were run).
    #[must_use]
    pub fn mean_reward_last(&self, n: usize) -> f64 {
        if self.episode_rewards.is_empty() {
            return 0.0;
        }
        let start = self.episode_rewards.len().saturating_sub(n);
        let window = &self.episode_rewards[start..];
        window.iter().sum::<f64>() / window.len() as f64
    }

    /// Episodes completed per minute of wall-clock time.
    #[must_use]
    pub fn episodes_per_minute(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.episode_rewards.len() as f64 / (self.wall_seconds / 60.0)
    }

    /// Environment steps per minute of wall-clock time.
    #[must_use]
    pub fn steps_per_minute(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.episode_lengths.iter().sum::<usize>() as f64 / (self.wall_seconds / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_parallel, ParallelTrainOptions, PpoConfig, PpoTrainer};
    use exec::Exec;

    /// Corridor environment: the agent starts at position 0 and must walk
    /// right (action 1) to reach position `goal`; walking left ends the
    /// episode with no reward.
    #[derive(Clone)]
    struct Corridor {
        position: usize,
        goal: usize,
    }

    impl Environment for Corridor {
        fn reset(&mut self) -> Vec<f64> {
            self.position = 0;
            vec![0.0]
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            if action == 1 {
                self.position += 1;
                if self.position >= self.goal {
                    StepOutcome {
                        state: vec![self.position as f64 / self.goal as f64],
                        reward: 1.0,
                        done: true,
                    }
                } else {
                    StepOutcome {
                        state: vec![self.position as f64 / self.goal as f64],
                        reward: 0.0,
                        done: false,
                    }
                }
            } else {
                StepOutcome {
                    state: vec![self.position as f64 / self.goal as f64],
                    reward: 0.0,
                    done: true,
                }
            }
        }
    }

    #[test]
    fn ppo_solves_corridor() {
        let env = Corridor {
            position: 0,
            goal: 4,
        };
        let config = PpoConfig {
            batch_size: 64,
            learning_rate: 0.01,
            hidden_sizes: vec![16],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(1, 2, &config, 2);
        let options = ParallelTrainOptions {
            episodes: 600,
            max_steps: 8,
            round_episodes: 1,
            seed: 2,
        };
        let report = train_parallel(&env, &mut trainer, &options, &Exec::serial(), |_| ()).report;
        assert!(
            report.mean_reward_last(100) > 0.7,
            "agent should learn to walk right: {}",
            report.mean_reward_last(100)
        );
        assert!(report.episodes_per_minute() > 0.0);
        assert!(report.steps_per_minute() > 0.0);
    }

    #[test]
    fn default_mask_allows_everything() {
        struct NoMask;
        impl Environment for NoMask {
            fn reset(&mut self) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _action: usize) -> StepOutcome {
                StepOutcome {
                    state: vec![0.0],
                    reward: 0.0,
                    done: true,
                }
            }
        }
        assert!(NoMask.action_mask().is_empty());
    }

    #[test]
    fn empty_report_statistics() {
        let report = TrainReport::default();
        assert_eq!(report.mean_reward_last(10), 0.0);
        assert_eq!(report.episodes_per_minute(), 0.0);
    }
}
