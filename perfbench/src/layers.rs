//! The per-layer split. A cold session is re-driven stage by stage through
//! each layer's public functions, in the order `DeterrentSession` calls
//! them, and every call is timed from outside. Nothing inside the crates is
//! instrumented; the re-driven artifacts are digested so the caller can
//! prove they are bit-identical to the session's own.

use std::time::Instant;

use deterrent_core::{
    generate_patterns_with, select_k_largest, CompatSetEnv, CompatibilityGraph, DeterrentConfig,
    DeterrentSession,
};
use exec::Exec;
use netlist::Netlist;
use rl::{CollectOptions, PpoTrainer, TrainReport};
use sat::CircuitOracle;
use sim::RareNetEstimate;

use crate::digest;
use crate::report::Metrics;

/// Digests of every stage artifact; `None` for stages a workload skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub estimate: u64,
    pub analysis: u64,
    pub graph: u64,
    pub adjacency: u64,
    pub policy: Option<u64>,
    pub sets: Option<u64>,
    pub patterns: Option<u64>,
}

/// The artifacts of a finished session, re-read through its stage methods.
/// Every call is a memory-tier hit, so this costs no pipeline work.
pub struct SessionArtifacts {
    pub graph: deterrent_core::GraphArtifact,
    pub sets: Vec<Vec<usize>>,
    pub patterns: Vec<sim::TestPattern>,
    pub outputs: Outputs,
}

/// Collects the artifacts of `session` up to `build_graph`, or through
/// `generate` when `full`.
pub fn session_artifacts(session: &mut DeterrentSession<'_>, full: bool) -> SessionArtifacts {
    let prob = session.estimate();
    let rare = session.analyze();
    let graph = session.build_graph(&rare);
    let mut outputs = Outputs {
        estimate: digest::estimate(prob.estimate()),
        analysis: digest::analysis(rare.analysis()),
        graph: digest::graph(graph.graph()),
        adjacency: digest::adjacency(graph.graph()),
        policy: None,
        sets: None,
        patterns: None,
    };
    let (mut sets, mut patterns) = (Vec::new(), Vec::new());
    if full {
        let policy = session.train(&graph);
        let trained = policy.policy();
        outputs.policy = Some(digest::policy(
            &trained.trainer.snapshot(),
            &trained.report,
            &trained.harvested_sets,
        ));
        let selected = session.select(&graph, &policy);
        let s = selected.selected();
        outputs.sets = Some(digest::sets(
            &s.sets,
            s.max_compatible_set,
            s.harvested_total,
        ));
        let result = session.generate(&graph, &policy, &selected);
        outputs.patterns = Some(digest::patterns(&result.patterns));
        sets = result.sets;
        patterns = result.patterns;
    }
    SessionArtifacts {
        graph,
        sets,
        patterns,
        outputs,
    }
}

/// Re-drives `estimate → analyze → build_graph` (and, when `full`,
/// `train → select → generate`) on a fresh executor with `config.threads`
/// workers. Returns the artifact digests and the per-layer metrics,
/// including `unattributed_pct`.
pub fn redrive(netlist: &Netlist, config: &DeterrentConfig, full: bool) -> (Outputs, Metrics) {
    let exec = Exec::new(config.threads);
    let mut m = Metrics::default();
    let start = Instant::now();

    let t = Instant::now();
    let estimate = RareNetEstimate::estimate_with(
        netlist,
        config.analysis.effective_retain(),
        config.analysis.probability_patterns,
        config.seed,
        &exec,
    );
    let analysis = estimate.threshold(config.analysis.rareness_threshold);
    let mut attributed = m.time("sim.estimate_s", t);
    m.set("sim.candidates", estimate.num_candidates() as f64);

    let t = Instant::now();
    let graph = CompatibilityGraph::build_on(netlist, &analysis, config.compat.strategy, &exec);
    attributed += m.time("compat.build_s", t);
    funnel_metrics(&mut m, &graph);

    let mut outputs = Outputs {
        estimate: digest::estimate(&estimate),
        analysis: digest::analysis(&analysis),
        graph: digest::graph(&graph),
        adjacency: digest::adjacency(&graph),
        policy: None,
        sets: None,
        patterns: None,
    };
    if full {
        attributed += redrive_rl(netlist, config, &graph, &exec, &mut m, &mut outputs);
    }

    let wall = start.elapsed().as_secs_f64();
    let stats = exec.stats();
    let busy = stats.busy_nanos as f64 / 1e9;
    m.set("exec.busy_s", busy);
    m.set("exec.tasks", stats.tasks as f64);
    m.set("exec.utilization", busy / (wall * exec.threads() as f64));
    m.set("unattributed_pct", 100.0 * (wall - attributed) / wall);
    (outputs, m)
}

fn funnel_metrics(m: &mut Metrics, graph: &CompatibilityGraph) {
    let s = graph.stats();
    let tier = |nanos: u64| nanos as f64 / 1e9;
    m.set("compat.tier1_s", tier(s.tier1_nanos));
    m.set("compat.tier2_s", tier(s.tier2_nanos));
    m.set("compat.tier3_s", tier(s.tier3_nanos));
    // Build time outside the three pair tiers: the singleton filter and
    // the funnel's set-up.
    let rest = m.get("compat.build_s") - tier(s.tier_nanos_total());
    m.set("compat.singletons_s", rest.max(0.0));
    m.set("compat.pairs_total", s.pairs_total as f64);
    m.set("compat.pairs_witnessed", s.pairs_sim_witnessed as f64);
    m.set("compat.pairs_pruned", s.pairs_structurally_pruned as f64);
    m.set("compat.pairs_enumerated", s.pairs_cone_enumerated as f64);
    m.set("compat.pairs_sat", s.pairs_sat_resolved as f64);
    m.set("compat.singleton_sat", s.singleton_sat_queries as f64);
    m.set("compat.sat_free_ratio", s.sat_free_pair_fraction());
    m.set("sat.decisions", s.solver.decisions as f64);
    m.set("sat.conflicts", s.solver.conflicts as f64);
    m.set("sat.propagations", s.solver.propagations as f64);
    if s.tier3_nanos > 0 {
        m.set(
            "sat.pair_queries_per_s",
            s.pairs_sat_resolved as f64 / tier(s.tier3_nanos),
        );
    }
}

/// `train → select → generate`, in the round order of
/// `rl::train_parallel_observed` and the session's select stage. Returns
/// the attributed seconds.
fn redrive_rl(
    netlist: &Netlist,
    config: &DeterrentConfig,
    graph: &CompatibilityGraph,
    exec: &Exec,
    m: &mut Metrics,
    outputs: &mut Outputs,
) -> f64 {
    let train = &config.train;
    let proto = CompatSetEnv::new(netlist, graph, config);
    let mut trainer = PpoTrainer::new(graph.len(), graph.len(), &train.ppo, config.seed);
    let finish = |env: &mut CompatSetEnv<'_>| env.take_harvest();
    let mut report = TrainReport::default();
    let mut harvested: Vec<Vec<usize>> = Vec::new();
    let (mut collect_s, mut update_s, mut sample_passes) = (0.0, 0.0, 0usize);
    let round = train.rollout_round.max(1);
    let mut next = 0usize;
    while next < train.episodes {
        let count = round.min(train.episodes - next);
        let t = Instant::now();
        let episodes = rl::collect_episodes(
            &proto,
            &trainer,
            &CollectOptions {
                count,
                max_steps: train.steps_per_episode,
                seed: config.seed,
                first_episode: next as u64,
                greedy: false,
            },
            exec,
            finish,
        );
        collect_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for episode in episodes {
            let steps = episode.transitions.len();
            for transition in episode.transitions {
                trainer.record(transition);
            }
            let pending = trainer.pending_transitions();
            if let Some(losses) = trainer.update_if_ready() {
                report.losses.push((trainer.total_steps(), losses));
                sample_passes += pending * train.ppo.epochs;
            }
            report.episode_rewards.push(episode.total_reward);
            report.episode_lengths.push(steps);
            harvested.extend(episode.harvest);
        }
        update_s += t.elapsed().as_secs_f64();
        next += count;
    }
    m.set("rl.collect_s", collect_s);
    m.set("rl.update_s", update_s);
    m.set("rl.updates", trainer.total_updates() as f64);
    m.set("rl.env_steps", trainer.total_steps() as f64);
    m.set("rl.sample_passes", sample_passes as f64);
    if update_s > 0.0 {
        m.set("rl.sample_passes_per_s", sample_passes as f64 / update_s);
    }
    outputs.policy = Some(digest::policy(&trainer.snapshot(), &report, &harvested));

    let t = Instant::now();
    let eval = rl::collect_episodes(
        &proto,
        &trainer,
        &CollectOptions {
            count: config.select.eval_rollouts,
            max_steps: train.steps_per_episode,
            seed: config.seed,
            first_episode: train.episodes as u64,
            greedy: true,
        },
        exec,
        finish,
    );
    let rollout_s = m.time("select.rollout_s", t);
    let t = Instant::now();
    harvested.extend(eval.into_iter().flat_map(|e| e.harvest));
    let max_set = harvested.iter().map(Vec::len).max().unwrap_or(0);
    let sets = select_k_largest(&harvested, config.select.k_patterns);
    let pick_s = m.time("select.pick_s", t);
    m.set("select.rollouts", config.select.eval_rollouts as f64);
    m.set("select.harvested", harvested.len() as f64);
    outputs.sets = Some(digest::sets(&sets, max_set, harvested.len()));

    let t = Instant::now();
    let mut oracle = CircuitOracle::new(netlist);
    let (patterns, stats) = generate_patterns_with(&mut oracle, graph, &sets);
    let generate_s = m.time("generate.s", t);
    m.set("generate.sat_queries", stats.sat_queries as f64);
    m.set("generate.witness_reused", stats.witness_reused as f64);
    m.set(
        "generate.patterns_per_set",
        patterns.len() as f64 / sets.len().max(1) as f64,
    );
    outputs.patterns = Some(digest::patterns(&patterns));
    collect_s + update_s + rollout_s + pick_s + generate_s
}
