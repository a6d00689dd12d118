//! The compatible-rare-net-set Markov decision process (Section 3.1).

use netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{Environment, StepOutcome};
use sat::CircuitOracle;

use crate::{CompatCheck, CompatibilityGraph, DeterrentConfig, RewardMode};

/// The DETERRENT environment.
///
/// * **States** are subsets of the rare nets (represented to the agent as a
///   0/1 vector with one entry per rare net).
/// * **Actions** are rare nets; choosing a net that is compatible with every
///   net already in the state adds it, otherwise the state is unchanged.
/// * **Rewards** are `|s_{t+1}|²` for compatible additions (all-steps mode)
///   or `|s_T|²` granted only at the end of the episode (end-of-episode
///   mode).
/// * **Masking** (when enabled) restricts the action set to nets that are
///   pairwise compatible with the whole current state and not yet members —
///   Theorem 3.1 of the paper shows this loses nothing.
///
/// Episode-final states are recorded and can be drained with
/// [`CompatSetEnv::take_harvest`]; they are the maximal compatible sets the
/// pipeline turns into test patterns.
///
/// The environment is `Clone` and implements [`Environment::reseed`], so
/// parallel rollout collection can give every episode its own copy with an
/// independent, reproducible initial-state stream.
#[derive(Debug, Clone)]
pub struct CompatSetEnv<'a> {
    graph: &'a CompatibilityGraph,
    reward_mode: RewardMode,
    masking: bool,
    compat_check: CompatCheck,
    oracle: Option<CircuitOracle<'a>>,
    steps_per_episode: usize,
    members: Vec<usize>,
    membership: Vec<bool>,
    steps_taken: usize,
    rng: StdRng,
    harvest: Vec<Vec<usize>>,
    exact_sat_checks: u64,
}

impl<'a> CompatSetEnv<'a> {
    /// Creates the environment for `graph` using the MDP settings in
    /// `config`. `netlist` is only needed (and only encoded) when
    /// [`CompatCheck::ExactSat`] is selected.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no rare nets.
    #[must_use]
    pub fn new(
        netlist: &'a Netlist,
        graph: &'a CompatibilityGraph,
        config: &DeterrentConfig,
    ) -> Self {
        assert!(!graph.is_empty(), "environment needs at least one rare net");
        let train = &config.train;
        let oracle = match train.compat_check {
            CompatCheck::ExactSat => Some(CircuitOracle::new(netlist)),
            CompatCheck::PairwiseGraph => None,
        };
        Self {
            graph,
            reward_mode: train.reward_mode,
            masking: train.masking,
            compat_check: train.compat_check,
            oracle,
            steps_per_episode: train.steps_per_episode,
            members: Vec::new(),
            membership: vec![false; graph.len()],
            steps_taken: 0,
            rng: StdRng::seed_from_u64(config.seed ^ 0x05ee_de0f),
            harvest: Vec::new(),
            exact_sat_checks: 0,
        }
    }

    /// The current set of member rare-net indices (sorted by insertion
    /// order: the random seed net first).
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Drains the episode-final sets collected since the last call.
    pub fn take_harvest(&mut self) -> Vec<Vec<usize>> {
        std::mem::take(&mut self.harvest)
    }

    /// Number of exact SAT compatibility checks performed (only non-zero when
    /// [`CompatCheck::ExactSat`] is active).
    #[must_use]
    pub fn exact_sat_checks(&self) -> u64 {
        self.exact_sat_checks
    }

    fn observation(&self) -> Vec<f64> {
        self.membership
            .iter()
            .map(|&m| if m { 1.0 } else { 0.0 })
            .collect()
    }

    fn is_action_compatible(&mut self, action: usize) -> bool {
        if self.membership[action] {
            return false;
        }
        match self.compat_check {
            CompatCheck::PairwiseGraph => self.graph.compatible_with_all(&self.members, action),
            CompatCheck::ExactSat => {
                self.exact_sat_checks += 1;
                let mut set = self.members.clone();
                set.push(action);
                let targets = self.graph.targets(&set);
                self.oracle
                    .as_mut()
                    .expect("exact-SAT mode constructs an oracle")
                    .is_compatible(&targets)
            }
        }
    }

    fn no_action_available(&self) -> bool {
        (0..self.graph.len())
            .all(|j| self.membership[j] || !self.graph.compatible_with_all(&self.members, j))
    }

    fn finish_episode(&mut self) {
        self.harvest.push(self.members.clone());
    }
}

impl Environment for CompatSetEnv<'_> {
    fn state_dim(&self) -> usize {
        self.graph.len()
    }

    fn num_actions(&self) -> usize {
        self.graph.len()
    }

    fn reset(&mut self) -> Vec<f64> {
        self.members.clear();
        self.membership.iter_mut().for_each(|m| *m = false);
        self.steps_taken = 0;
        // The initial state is a singleton containing a random rare net.
        let seed_net = self.rng.gen_range(0..self.graph.len());
        self.members.push(seed_net);
        self.membership[seed_net] = true;
        self.observation()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let compatible = self.is_action_compatible(action);
        let mut reward = 0.0;
        if compatible {
            self.members.push(action);
            self.membership[action] = true;
            if self.reward_mode == RewardMode::AllSteps {
                let size = self.members.len() as f64;
                reward = size * size;
            }
        }
        self.steps_taken += 1;

        let exhausted = self.masking && self.no_action_available();
        let done = self.steps_taken >= self.steps_per_episode || exhausted;
        if done {
            if self.reward_mode == RewardMode::EndOfEpisode {
                let size = self.members.len() as f64;
                reward += size * size;
            }
            self.finish_episode();
        }
        StepOutcome {
            state: self.observation(),
            reward,
            done,
        }
    }

    fn action_mask(&self) -> Vec<bool> {
        if !self.masking {
            return Vec::new();
        }
        (0..self.graph.len())
            .map(|j| !self.membership[j] && self.graph.compatible_with_all(&self.members, j))
            .collect()
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::synth::BenchmarkProfile;
    use sim::rare::RareNetAnalysis;

    fn setup() -> (Netlist, RareNetAnalysis) {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(12);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 6);
        (nl, analysis)
    }

    #[test]
    fn reset_starts_with_one_member() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let config = DeterrentConfig::fast_preset();
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        let obs = env.reset();
        assert_eq!(obs.len(), graph.len());
        assert_eq!(obs.iter().filter(|&&x| x > 0.5).count(), 1);
        assert_eq!(env.members().len(), 1);
    }

    #[test]
    fn compatible_step_grows_state_and_pays_squared_reward() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let config = DeterrentConfig::fast_preset();
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        let seed = env.members()[0];
        // Find a compatible partner.
        let partner = (0..graph.len()).find(|&j| graph.is_compatible(seed, j));
        if let Some(p) = partner {
            let outcome = env.step(p);
            assert_eq!(env.members().len(), 2);
            assert!((outcome.reward - 4.0).abs() < 1e-12, "reward is |s|² = 4");
        }
    }

    #[test]
    fn incompatible_or_duplicate_action_leaves_state_unchanged() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let config = DeterrentConfig::fast_preset();
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        let seed = env.members()[0];
        let outcome = env.step(seed); // re-selecting the member
        assert_eq!(env.members().len(), 1);
        assert_eq!(outcome.reward, 0.0);
    }

    #[test]
    fn mask_excludes_members_and_incompatible_nets() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let config = DeterrentConfig::fast_preset();
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        let seed = env.members()[0];
        let mask = env.action_mask();
        assert_eq!(mask.len(), graph.len());
        assert!(!mask[seed], "current members must be masked");
        for (j, &allowed) in mask.iter().enumerate() {
            if allowed {
                assert!(graph.is_compatible(seed, j));
            }
        }
    }

    #[test]
    fn no_masking_returns_empty_mask() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let config = DeterrentConfig::fast_preset().with_ablation(RewardMode::AllSteps, false);
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        assert!(env.action_mask().is_empty());
    }

    #[test]
    fn end_of_episode_reward_arrives_only_at_the_end() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let mut config = DeterrentConfig::fast_preset();
        config.train.reward_mode = RewardMode::EndOfEpisode;
        config.train.steps_per_episode = 3;
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        let mut rewards = Vec::new();
        for step in 0..3 {
            let outcome = env.step(step % graph.len());
            rewards.push(outcome.reward);
            if outcome.done {
                break;
            }
        }
        let (last, init) = rewards.split_last().unwrap();
        assert!(init.iter().all(|&r| r == 0.0), "no intermediate rewards");
        assert!(*last >= 1.0, "terminal reward is the squared set size");
    }

    #[test]
    fn exact_sat_mode_counts_queries_and_agrees_with_graph() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let mut config = DeterrentConfig::fast_preset();
        config.train.compat_check = CompatCheck::ExactSat;
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        env.reset();
        let seed = env.members()[0];
        if let Some(p) = (0..graph.len()).find(|&j| graph.is_compatible(seed, j)) {
            let before = env.exact_sat_checks();
            let _ = env.step(p);
            assert_eq!(env.exact_sat_checks(), before + 1);
            assert_eq!(
                env.members().len(),
                2,
                "pairwise-compatible pair is SAT-compatible"
            );
        }
    }

    #[test]
    fn harvest_collects_episode_final_sets() {
        let (nl, analysis) = setup();
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let mut config = DeterrentConfig::fast_preset();
        config.train.steps_per_episode = 2;
        let mut env = CompatSetEnv::new(&nl, &graph, &config);
        for _ in 0..3 {
            env.reset();
            loop {
                let outcome = env.step(0);
                if outcome.done {
                    break;
                }
            }
        }
        let harvest = env.take_harvest();
        assert_eq!(harvest.len(), 3);
        assert!(env.take_harvest().is_empty(), "harvest drains");
    }
}
