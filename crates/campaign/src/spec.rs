//! The campaign grid as plain data.
//!
//! [`PlanSpec`] is the *one* description of "which sweep to run": the
//! `deterrent-campaign` CLI flags parse into it and tests build from it,
//! and both turn it into a [`crate::CampaignPlan`] through
//! [`PlanSpec::to_plan`], so its [`Default`] is the only default grid.

use deterrent_core::DeterrentConfig;

use crate::{profile_by_name, CampaignPlan, NetlistSpec};

/// The base configuration every campaign front end derives from a scale
/// divisor and an episode count: paper-sized presets at `scale <= 1`,
/// otherwise the fast preset widened back toward paper fidelity
/// (4096 probability patterns, 16 eval rollouts, k=8 pattern sets).
#[must_use]
pub fn base_config_for(scale: usize, episodes: usize) -> DeterrentConfig {
    if scale <= 1 {
        DeterrentConfig::paper_preset()
    } else {
        DeterrentConfig::fast_preset()
            .with_probability_patterns(4096)
            .with_eval_rollouts(16)
            .with_k_patterns(8)
    }
    .with_episodes(episodes)
}

/// A campaign grid as plain data: benchmark names × θ × seeds plus the
/// scalar knobs that shape the base config. The default value is the
/// `deterrent-campaign` CLI's default 8-cell sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Benchmark names accepted by [`profile_by_name`].
    pub netlists: Vec<String>,
    /// Divisor applied to the paper-sized profiles.
    pub scale: usize,
    /// Rareness thresholds θ.
    pub thetas: Vec<f64>,
    /// Master pipeline seeds.
    pub seeds: Vec<u64>,
    /// PPO episodes per cell.
    pub episodes: usize,
    /// Session workers inside each cell (0 is clamped to 1 at run time).
    pub cell_threads: usize,
    /// Seed of the deterministic netlist generator.
    pub netlist_seed: u64,
}

impl Default for PlanSpec {
    fn default() -> Self {
        Self {
            netlists: vec!["c2670".into(), "c5315".into()],
            scale: 20,
            thetas: vec![0.15, 0.2],
            seeds: vec![1, 2],
            episodes: 40,
            cell_threads: 1,
            netlist_seed: 3,
        }
    }
}

impl PlanSpec {
    /// Number of cells the spec expands to.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.netlists.len() * self.thetas.len() * self.seeds.len()
    }

    /// Expands the spec into a runnable [`CampaignPlan`] over
    /// [`base_config_for`].
    ///
    /// # Errors
    ///
    /// Rejects unknown benchmark names, empty grid axes, and any θ outside
    /// `(0, 0.5]` (NaN and ∞ included) — the range rare-net analysis
    /// accepts — with a human-readable message naming the bad value.
    pub fn to_plan(&self) -> Result<CampaignPlan, String> {
        if self.netlists.is_empty() || self.thetas.is_empty() || self.seeds.is_empty() {
            return Err("empty plan axis (netlists, thetas, and seeds must be non-empty)".into());
        }
        if let Some(theta) = self.thetas.iter().find(|&&t| !(t > 0.0 && t <= 0.5)) {
            return Err(format!("theta {theta} outside (0, 0.5]"));
        }
        let netlists = self
            .netlists
            .iter()
            .map(|name| {
                profile_by_name(name)
                    .map(|profile| NetlistSpec::new(profile, self.scale, self.netlist_seed))
                    .ok_or_else(|| format!("unknown netlist name {name:?}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CampaignPlan {
            netlists,
            thetas: self.thetas.clone(),
            seeds: self.seeds.clone(),
            base: base_config_for(self.scale, self.episodes),
            cell_threads: self.cell_threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_cli_default_grid() {
        let spec = PlanSpec::default();
        assert_eq!(spec.cells(), 8);
        let plan = spec.to_plan().unwrap();
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.netlists[0].label, "c2670");
        assert_eq!(plan.netlists[0].scale, 20);
    }

    #[test]
    fn rejects_unknown_netlists_and_empty_axes() {
        let mut spec = PlanSpec {
            netlists: vec!["nonesuch".into()],
            ..PlanSpec::default()
        };
        assert!(spec.to_plan().unwrap_err().contains("nonesuch"));
        spec.netlists = vec!["c2670".into()];
        spec.thetas.clear();
        assert!(spec.to_plan().unwrap_err().contains("empty plan axis"));
        for (bad, shown) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (0.0, "0"),
            (-0.1, "-0.1"),
            (0.9, "0.9"),
        ] {
            spec.thetas = vec![0.15, bad];
            let err = spec.to_plan().unwrap_err();
            assert!(err.contains(&format!("theta {shown} ")), "{err}");
        }
        spec.thetas = vec![0.5];
        assert!(spec.to_plan().is_ok());
    }
}
